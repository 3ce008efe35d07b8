"""Tests for the isolated and naive baselines."""

import pytest

from repro.baselines import IsolatedRuntime, NaiveRuntime
from repro.baselines.naive import best_and_worst, run_naive_cases
from repro.policies.queueing import packed_fifo
from repro.workloads.apps import DATASETS, JobSpec, MLR
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def workload():
    return WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)


@pytest.fixture(scope="module")
def isolated_result(workload):
    return IsolatedRuntime(24, workload).run()


class TestIsolated:
    def test_all_jobs_finish(self, isolated_result, workload):
        assert len(isolated_result.finished) == len(workload)
        assert not isolated_result.failed

    def test_scheduler_name(self, isolated_result):
        assert isolated_result.scheduler_name == "isolated"

    def test_one_job_per_group(self, workload):
        runtime = IsolatedRuntime(24, workload)
        assert runtime.master.policy.name == \
            packed_fifo(group_size=1).name

    def test_machines_for_balances_cpu_and_network(self, workload):
        runtime = IsolatedRuntime(100, workload)
        spec = workload[0]
        wanted = runtime.master.machines_for([spec])
        assert 1 <= wanted <= 32

    def test_memory_floor_enforced(self):
        """A big job is never squeezed below its no-spill floor."""
        spec = JobSpec("big", MLR, DATASETS["MLR"][1], iterations=2)
        runtime = IsolatedRuntime(100, [spec])
        floor = runtime.master._specs_floor([spec])
        assert runtime.master.machines_for([spec]) >= floor
        assert floor > 1

    def test_strict_fifo_blocks_head_of_line(self, workload):
        lenient = IsolatedRuntime(24, workload).run()
        strict = IsolatedRuntime(24, workload, ).run()
        # Both complete; backfill cannot be slower than strict FIFO.
        assert lenient.makespan <= strict.makespan * 1.05

    def test_dop_scale_shrinks_allocations(self, workload):
        spec = workload[0]
        small = IsolatedRuntime(100, workload, dop_scale=0.5)
        large = IsolatedRuntime(100, workload, dop_scale=1.0)
        assert small.master.machines_for([spec]) <= \
            large.master.machines_for([spec])


class TestNaive:
    def test_all_jobs_finish_when_feasible(self, workload):
        result = NaiveRuntime(24, workload, group_size=2,
                              shuffle_seed=1).run()
        assert len(result.finished) + len(result.failed) == len(workload)
        assert len(result.finished) >= len(workload) - 1

    def test_shuffle_seed_changes_outcome(self, workload):
        first = NaiveRuntime(24, workload, group_size=2,
                             shuffle_seed=1).run()
        second = NaiveRuntime(24, workload, group_size=2,
                              shuffle_seed=2).run()
        assert first.makespan != second.makespan

    def test_run_naive_cases_counts(self, workload):
        cases = run_naive_cases(24, workload, n_cases=3)
        assert len(cases) == 3
        for case in cases:
            assert case.scheduler_name == "naive"

    def test_best_and_worst_ordering(self, workload, isolated_result):
        cases = run_naive_cases(24, workload, n_cases=3)
        best, worst = best_and_worst(cases, isolated_result.mean_jct)
        assert best.mean_jct <= worst.mean_jct

    def test_best_and_worst_empty_raises(self):
        with pytest.raises(ValueError):
            best_and_worst([], 1.0)

    def test_group_size_respected(self, workload):
        runtime = NaiveRuntime(24, workload, group_size=3)
        assert runtime.master.policy.name == \
            packed_fifo(group_size=3).name


class TestComparativeShape:
    """The headline qualitative claims of Fig. 10, at test scale."""

    def test_harmony_beats_isolated_makespan(self, workload,
                                             isolated_result):
        from repro.core.runtime import HarmonyRuntime
        harmony = HarmonyRuntime(24, workload).run()
        assert harmony.makespan < isolated_result.makespan

    def test_harmony_utilization_exceeds_isolated(self, workload,
                                                  isolated_result):
        from repro.core.runtime import HarmonyRuntime
        harmony = HarmonyRuntime(24, workload).run()
        assert harmony.average_utilization("cpu") > \
            isolated_result.average_utilization("cpu")
