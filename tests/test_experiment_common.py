"""Tests for experiment plumbing and baseline demand details."""


from repro.baselines.base import BaselineRuntime
from repro.core.group_runtime import ExecutionMode
from repro.experiments.common import run_single_group, scaled_workload
from repro.policies.queueing import packed_fifo
from repro.workloads.apps import DATASETS, JobSpec, LDA, MLR
from repro.workloads.generator import WorkloadGenerator


class TestRunSingleGroup:
    def test_single_job_measures_utilization(self):
        spec = JobSpec("j", LDA, DATASETS["LDA"][1], iterations=4)
        result = run_single_group([spec], 8,
                                  mode=ExecutionMode.ISOLATED)
        assert result.job_ids == ("j",)
        assert 0.0 < result.cpu_utilization <= 1.0
        assert 0.0 < result.net_utilization <= 1.0
        assert result.mean_iteration_seconds > 0
        assert not result.failed

    def test_max_iterations_caps_duration(self):
        spec = JobSpec("j", LDA, DATASETS["LDA"][1], iterations=50)
        short = run_single_group([spec], 8, max_iterations=3)
        long = run_single_group([spec], 8, max_iterations=10)
        assert short.duration_seconds < long.duration_seconds

    def test_a_one_iteration_job_has_no_steady_cycle(self):
        """The first cycle is warm-up, so a one-iteration run leaves no
        per-job cycle and pacing falls back to the group mean."""
        spec = JobSpec("j", LDA, DATASETS["LDA"][1], iterations=4)
        result = run_single_group([spec], 8, max_iterations=1)
        assert result.per_job_cycle_seconds == {}
        assert result.pacing_cycle_seconds() == \
            result.mean_iteration_seconds > 0

    def test_oom_is_reported_not_raised(self):
        specs = [JobSpec("a", MLR, DATASETS["MLR"][1], model_scale=2.0,
                         iterations=3),
                 JobSpec("b", MLR, DATASETS["MLR"][1], model_scale=2.0,
                         iterations=3),
                 JobSpec("c", MLR, DATASETS["MLR"][1], model_scale=2.0,
                         iterations=3)]
        result = run_single_group(specs, 8, mode=ExecutionMode.NAIVE)
        assert result.failed
        assert result.oom is not None


class TestScaledWorkload:
    def test_machine_floor_protects_baselines(self):
        _, machines = scaled_workload(0.05)
        assert machines >= 20

    def test_jobs_scale_in_eighths(self):
        jobs, _ = scaled_workload(0.25)
        assert len(jobs) == 8 * round(10 * 0.25)


class TestColocationGating:
    def _runtime(self):
        from dataclasses import replace
        from repro.config import DEFAULT_SIM_CONFIG
        config = replace(DEFAULT_SIM_CONFIG,
                         memory=replace(DEFAULT_SIM_CONFIG.memory,
                                        spill_enabled=False))
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        return BaselineRuntime(
            32, jobs, mode=ExecutionMode.HARMONY, name="packed",
            policy=packed_fifo(group_size=3), dop_scale=0.5,
            config=config)

    def test_dop_scale_validation_through_machines_for(self):
        runtime = self._runtime()
        spec = JobSpec("x", LDA, DATASETS["LDA"][0], iterations=2)
        runtime.master._add_job(spec)
        wanted = runtime.master.machines_for([spec.job_id])
        assert 1 <= wanted <= runtime.cluster.size
