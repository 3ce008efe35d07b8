"""Tests for the isolated and naive baselines."""

import pytest

from repro.baselines import IsolatedRuntime, NaiveRuntime
from repro.baselines.base import BaselineRuntime
from repro.baselines.naive import run_naive_cases
from repro.core.group_runtime import ExecutionMode
from repro.core.job import JobState
from repro.errors import SimulationError
from repro.policies.base import GroupStart
from repro.policies.queueing import fcfs
from repro.policies.registry import build_runtime
from repro.workloads.apps import DATASETS, JobSpec, LDA, MLR
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def workload():
    return WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)


def group_sizes(runtime):
    """Run ``runtime``; the job count of each group it started."""
    sizes = []
    admit = runtime.master._admit

    def counting_admit(group, start):
        sizes.append(len(start.job_ids))
        admit(group, start)

    runtime.master._admit = counting_admit
    runtime.run()
    return sizes


@pytest.fixture(scope="module")
def isolated_result(workload):
    return IsolatedRuntime(24, workload).run()


class TestIsolated:
    def test_all_jobs_finish(self, isolated_result, workload):
        assert len(isolated_result.finished) == len(workload)
        assert not isolated_result.failed

    def test_scheduler_name(self, isolated_result):
        assert isolated_result.scheduler_name == "isolated"

    def test_summary_has_no_regroup_gates(self, isolated_result):
        """Only the Harmony master has regroup gates to report."""
        assert isolated_result.gates is None
        text = isolated_result.summary()
        assert "mean JCT" in text and "regroup gates" not in text

    def test_one_job_per_group(self, workload):
        sizes = group_sizes(IsolatedRuntime(24, workload))
        assert sizes == [1] * len(workload)

    def test_machines_for_balances_cpu_and_network(self, workload):
        runtime = IsolatedRuntime(100, workload)
        spec = workload[0]
        runtime.master._add_job(spec)
        wanted = runtime.master.machines_for([spec.job_id])
        assert 1 <= wanted <= 32

    def test_memory_floor_enforced(self):
        """A big job is never squeezed below its no-spill floor."""
        spec = JobSpec("big", MLR, DATASETS["MLR"][1], iterations=2)
        runtime = IsolatedRuntime(100, [spec])
        runtime.master._add_job(spec)
        floor = runtime.master._memory_floor([spec.job_id])
        assert runtime.master.machines_for([spec.job_id]) >= floor
        assert floor > 1

    def test_strict_fifo_blocks_head_of_line(self, workload):
        lenient = IsolatedRuntime(24, workload).run()
        strict = build_runtime("fcfs", 24, workload).run()
        # Both complete; backfill cannot be slower than strict FIFO.
        assert lenient.makespan <= strict.makespan * 1.05

    def test_dop_scale_shrinks_allocations(self, workload):
        spec = workload[0]
        small = IsolatedRuntime(100, workload, dop_scale=0.5)
        large = IsolatedRuntime(100, workload, dop_scale=1.0)
        small.master._add_job(spec)
        large.master._add_job(spec)
        assert small.master.machines_for([spec.job_id]) <= \
            large.master.machines_for([spec.job_id])


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

    def test_group_size_respected(self, workload):
        sizes = group_sizes(NaiveRuntime(24, workload, group_size=3))
        assert sum(sizes) == len(workload)
        assert max(sizes) == 3


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


def _cramming(width):
    """A policy that starts the whole queue on ``width`` machines,
    whatever its memory floor says."""
    def cram(obs):
        if not obs.queue:
            return ()
        return (GroupStart(tuple(obs.queue), width),)
    return cram


class TestJobsThatDoNotFit:
    """A queue policy may start a group below its jobs' memory floor;
    the master fails those jobs and frees their machines."""

    def test_naive_colocation_oom_fails_every_job(self):
        jobs = [JobSpec(f"big{i}", MLR, DATASETS["MLR"][1], iterations=5)
                for i in range(2)]
        runtime = BaselineRuntime(8, jobs, mode=ExecutionMode.NAIVE,
                                  name="cram", policy=_cramming(1))
        result = runtime.run()
        assert [o.state for o in result.outcomes.values()] \
            == [JobState.FAILED, JobState.FAILED]
        assert not runtime.master.groups
        assert runtime.cluster.n_free == 8
        with pytest.raises(SimulationError, match="no finished jobs"):
            result.mean_jct
        with pytest.raises(SimulationError, match="no finished jobs"):
            result.makespan

    def test_a_job_that_fits_nowhere_frees_its_group(self):
        # Even fully spilled, a 40x MLR model does not fit two machines:
        # admission refuses it, and its machines go back to the pool
        # for the LDA job, which needs all eight.
        huge = JobSpec("huge", MLR, DATASETS["MLR"][0], iterations=5,
                       model_scale=40.0)
        small = JobSpec("small", LDA, DATASETS["LDA"][1], iterations=5)

        def huge_first(obs):
            if "huge" in obs.queue:
                return (GroupStart(("huge",), 2),)
            return fcfs(obs)

        runtime = BaselineRuntime(8, [huge, small],
                                  mode=ExecutionMode.HARMONY, name="x",
                                  policy=huge_first)
        result = runtime.run()
        assert result.outcomes["huge"].state is JobState.FAILED
        assert result.outcomes["huge"].finish_time == 0.0
        assert result.outcomes["small"].state is JobState.FINISHED
        assert runtime.cluster.n_free == 8

    def test_a_baseline_master_never_pauses_a_job(self):
        runtime = IsolatedRuntime(24, [JobSpec(
            "a", LDA, DATASETS["LDA"][1], iterations=3)])
        runtime.run()
        job = runtime.master.jobs["a"]
        with pytest.raises(SimulationError, match="never pause"):
            runtime.master.on_job_paused(job, None)
