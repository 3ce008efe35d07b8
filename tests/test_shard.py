"""Sharded scheduling (repro.shard): differential pins and unit tests.

The correctness story mirrors the repo's established technique
(tests/test_sched_fastpath.py): the 1-cell sharded scheduler is pinned
bitwise-equal to the unsharded ``HarmonyScheduler`` over hypothesis
sweeps, and the placer's routing is pinned stable under varying
``PYTHONHASHSEED`` via subprocess runs (the test_analysis.py pattern).
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster, split_machine_counts
from repro.config import SchedulerConfig, ShardConfig, SimConfig
from repro.core.master import HarmonyMaster
from repro.core.profiler import JobMetrics
from repro.core.scheduler import HarmonyScheduler
from repro.errors import ClusterError, SchedulingError
from repro.experiments.scalability import (
    ScalabilityResult,
    ShardScalabilityResult,
)
from repro.metrics.utilization import ClusterUsageRecorder
from repro.shard import (
    GlobalPlacer,
    ShardedScheduler,
    job_weight,
    partition_machines,
    plan_moves,
)
from repro.sim import RandomStreams, Simulator
from repro.workloads.costmodel import CostModel

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
            with pytest.raises(SchedulingError):
                partition_machines(total, n_cells)
            return
        sizes = partition_machines(total, n_cells)
        assert len(sizes) == n_cells
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1
        # Larger cells come first, deterministically.
        assert list(sizes) == sorted(sizes, reverse=True)

    def test_cluster_cell_sizes_matches_canonical_split(self):
        cluster = Cluster(23)
        assert cluster.cell_sizes(4) == split_machine_counts(23, 4)
        assert cluster.cell_sizes(4) == (6, 6, 6, 5)

    def test_zero_cells_rejected(self):
        with pytest.raises(ClusterError):
            split_machine_counts(10, 0)
        with pytest.raises(SchedulingError):
            partition_machines(10, 0)


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
        job = make_jobs([(8.0, 0.0)])
        placer = GlobalPlacer((4, 16))
        placer.reassign("j0", 0)
        wide = placer.loads(job)
        placer.reassign("j0", 1)
        narrow = placer.loads(job)
        assert wide[0] == pytest.approx(4.0 * narrow[1])

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


# ---------------------------------------------------------------------------
# rebalancer


class TestPlanMoves:
    def cellify(self, weights_by_cell):
        return [make_jobs([(w, 0.0) for w in weights], f"c{index}-")
                for index, weights in enumerate(weights_by_cell)]

    def test_balanced_cells_produce_no_moves(self):
        cells = self.cellify([[4.0, 4.0], [4.0, 4.0]])
        assert plan_moves(cells, [10, 10], 0.75, 0.25, 64) == []

    def test_hot_cell_drains_into_coldest(self):
        cells = self.cellify([[8.0] * 6, [1.0]])
        moves = plan_moves(cells, [10, 10], 0.75, 0.25, 64)
        assert moves
        assert all(move.source == 0 and move.target == 1
                   for move in moves)
        # Drains back-to-front: the most recent (stickiest-warm) jobs
        # stay, the newest go.
        assert moves[0].job.job_id == "c0-5"

    def test_moves_reduce_spread(self):
        cells = self.cellify([[8.0] * 6, [1.0], [1.0]])
        machines = [10, 10, 10]
        before = [sum(job_weight(job, 0.75) for job in members) / m
                  for members, m in zip(cells, machines, strict=True)]
        moves = plan_moves(cells, machines, 0.75, 0.25, 64)
        loads = list(before)
        for move in moves:
            weight = job_weight(move.job, 0.75)
            loads[move.source] -= weight / machines[move.source]
            loads[move.target] += weight / machines[move.target]
        assert max(loads) - min(loads) < max(before) - min(before)

    def test_move_budget_is_respected(self):
        cells = self.cellify([[8.0] * 20, [0.1]])
        moves = plan_moves(cells, [10, 10], 0.75, 0.0, 3)
        assert len(moves) == 3

    def test_single_cell_never_moves(self):
        cells = self.cellify([[8.0] * 6])
        assert plan_moves(cells, [10], 0.75, 0.25, 64) == []


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

    def test_plan_cache_facade_invalidates_owning_cell(self):
        jobs = make_jobs([(float(i + 1), 0.2) for i in range(16)])
        scheduler = ShardedScheduler(shard=ShardConfig(n_cells=4))
        scheduler.schedule(jobs, 40)
        target = jobs[0].job_id
        owner = scheduler._placer.cell_of(target)
        scheduler.plan_cache.invalidate_job(target)
        assert scheduler._cells[owner].last_key is None
        untouched = [cell for cell in scheduler._cells
                     if cell.index != owner and cell.last_key]
        assert untouched

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

    def test_scale_cli_smoke(self, capsys):
        from repro.shard.cli import main

        code = main(["--cells", "1,2", "--sizes", "30x40",
                     "--churn", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sharded scheduling" in out
        assert "speedup at largest" in out

    def test_scale_cli_min_speedup_floor_fails_closed(self, capsys):
        from repro.shard.cli import main

        code = main(["--cells", "1,2", "--sizes", "30x40",
                     "--churn", "1", "--min-speedup", "1000"])
        assert code == 1


# ---------------------------------------------------------------------------
# hash-seed stability (subprocess, like tests/test_analysis.py)


class TestHashSeedStability:
    _SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.core.profiler import JobMetrics
from repro.shard import GlobalPlacer

def jobs(prefix, n, scale):
    return [JobMetrics(job_id=f"{{prefix}}{{i}}",
                       cpu_work=scale + (i * 37 % 11),
                       t_net=0.05 + (i % 7) / 9.0, m_observed=16)
            for i in range(n)]

placer = GlobalPlacer((40, 30, 30, 25), cpu_weight=0.75)
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
