"""End-to-end tests of the Harmony master and runtime."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.config import SimConfig
from repro.core.runtime import HarmonyRuntime
from repro.errors import SchedulingError, SimulationError
from repro.workloads.apps import DATASETS, DatasetSpec, JobSpec, LDA
from repro.workloads.arrivals import poisson_arrivals, with_arrival_times
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def small_run():
    """One shared 8-job end-to-end run (module-scoped: it is the
    expensive fixture most assertions read from)."""
    jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
    runtime = HarmonyRuntime(24, jobs)
    return runtime, runtime.run()


class TestEndToEnd:
    def test_every_job_finishes(self, small_run):
        _, result = small_run
        assert len(result.finished) == 8
        assert not result.failed

    def test_cluster_fully_released_at_end(self, small_run):
        runtime, _ = small_run
        assert runtime.cluster.n_free == runtime.cluster.size
        assert not runtime.master.groups

    def test_makespan_and_jct_consistent(self, small_run):
        _, result = small_run
        assert 0 < result.mean_jct <= result.makespan
        for outcome in result.finished:
            assert outcome.finish_time is not None
            assert outcome.jct > 0

    def test_utilization_within_bounds(self, small_run):
        _, result = small_run
        for resource in ("cpu", "net"):
            value = result.average_utilization(resource)
            assert 0.0 < value <= 1.0

    def test_utilization_timeline_averages_to_the_headline(self, small_run):
        _, result = small_run
        for resource in ("cpu", "net"):
            timeline = result.utilization_timeline(resource)
            assert timeline.average_until(result.makespan) \
                == result.average_utilization(resource)

    def test_concurrency_exceeds_one(self, small_run):
        _, result = small_run
        assert result.mean_concurrent_jobs() > 1.0
        assert result.mean_concurrent_groups() >= 1.0

    def test_decisions_have_bounded_prediction_error(self, small_run):
        _, result = small_run
        errors = result.prediction_errors()
        if errors["t_group"]:
            assert float(np.mean(errors["t_group"])) < 0.35

    def test_group_shape_log_populated(self, small_run):
        _, result = small_run
        assert result.group_shape_log
        assert all(m >= 1 and n >= 1
                   for _, m, n in result.group_shape_log)

    def test_alpha_samples_in_range(self, small_run):
        _, result = small_run
        assert result.alpha_samples
        assert all(0.0 <= a <= 1.0 for a in result.alpha_samples)

    def test_migration_overhead_is_small(self, small_run):
        _, result = small_run
        assert result.migration_overhead_seconds < 0.2 * result.makespan

    def test_summary_mentions_key_numbers(self, small_run):
        _, result = small_run
        text = result.summary()
        assert "mean JCT" in text
        assert "makespan" in text
        fp = result.fastpath
        assert (f"fast path: {fp.solo_batches} solo batches, "
                f"{fp.wakes_served} wakes in {fp.drive_windows} drive "
                f"windows") in text.splitlines()


class TestArrivals:
    def test_staggered_arrivals_complete(self):
        jobs = WorkloadGenerator(5).base_workload(hyper_params_per_pair=1)
        times = poisson_arrivals(len(jobs), 600.0, seed=1)
        workload = with_arrival_times(jobs, times)
        result = HarmonyRuntime(24, workload).run()
        assert len(result.finished) == len(jobs)
        # JCT is measured from each job's own submission.
        for outcome in result.finished:
            assert outcome.jct > 0

    def test_single_job_cluster(self):
        spec = JobSpec("only", LDA, DATASETS["LDA"][1], iterations=3)
        result = HarmonyRuntime(8, [spec]).run()
        assert len(result.finished) == 1

    def test_duplicate_submission_rejected(self):
        spec = JobSpec("dup", LDA, DATASETS["LDA"][1], iterations=2)
        runtime = HarmonyRuntime(8, [spec, spec])
        with pytest.raises(SchedulingError):
            runtime.run()


class TestDeterminism:
    def test_same_seed_reproduces_exactly(self):
        jobs = WorkloadGenerator(9).base_workload(hyper_params_per_pair=1)
        first = HarmonyRuntime(16, jobs).run()
        second = HarmonyRuntime(16, jobs).run()
        assert first.makespan == second.makespan
        assert first.mean_jct == second.mean_jct

    def test_different_seed_differs(self):
        jobs = WorkloadGenerator(9).base_workload(hyper_params_per_pair=1)
        config = SimConfig(seed=99)
        first = HarmonyRuntime(16, jobs).run()
        second = HarmonyRuntime(16, jobs, config=config).run()
        assert first.makespan != second.makespan

    def test_outcomes_invariant_under_hash_randomization(self):
        """Regression for a set-iteration-order bug in
        HarmonyMaster._apply_plan: group matching iterated a set, so
        migrations could differ between processes with different
        PYTHONHASHSEED values.  The whole-run outcome digest must be
        identical across hash seeds."""
        script = (
            "from repro.core.runtime import HarmonyRuntime\n"
            "from repro.workloads.generator import WorkloadGenerator\n"
            "jobs = WorkloadGenerator(3).base_workload("
            "hyper_params_per_pair=1)\n"
            "result = HarmonyRuntime(24, jobs).run()\n"
            "print(';'.join("
            "f'{o.job_id}:{o.finish_time:.9f}:{o.migrations}'"
            " for o in sorted(result.outcomes.values(),"
            " key=lambda o: o.job_id)))\n")
        digests = set()
        for hash_seed in ("1", "2", "42"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.path.join(
                os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__))), "src")
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  env=env, check=True)
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


class TestBudgetedRun:
    def test_max_sim_seconds_truncates(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs)
        runtime.run(max_sim_seconds=60.0)
        assert runtime.sim.now <= 60.0 + 1e-6

    def test_a_truncated_run_reports_no_jct_for_running_jobs(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        result = HarmonyRuntime(24, jobs).run(max_sim_seconds=60.0)
        unfinished = [o for o in result.outcomes.values()
                      if o.finish_time is None]
        assert unfinished
        assert all(o.jct is None for o in unfinished)
        assert len(result.jcts) == len(result.finished)

    def test_negative_budget_raises_and_keeps_clock(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs)
        with pytest.raises(SimulationError, match="before now"):
            runtime.run(max_sim_seconds=-1.0)
        assert runtime.sim.now == 0.0

    @pytest.mark.parametrize("when", [float("nan"), -5.0, float("inf")],
                             ids=["nan", "negative", "inf"])
    def test_bad_failure_time_rejected_at_construction(self, when):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        with pytest.raises(ValueError, match=f"failure time {when!r}"):
            HarmonyRuntime(24, jobs, failure_times=[100.0, when])

    def test_unfinished_jobs_raise_without_budget(self):
        """A cluster too small for a job's memory floor deadlocks its
        admission; the runtime must report that loudly."""
        spec = JobSpec("too-big", LDA, DATASETS["LDA"][0],
                       compute_scale=50.0, iterations=10_000)
        runtime = HarmonyRuntime(8, [spec])
        result = runtime.run(max_sim_seconds=100.0)
        assert len(result.finished) == 0

    def test_job_above_every_floor_raises_promptly(self):
        """The deadlock watchdog: once the placeable job finishes and
        nothing can start, the pacer stops at its next check and run()
        names the stuck job instead of spinning forever."""
        fits = JobSpec("fits", LDA, DATASETS["LDA"][1], iterations=3)
        huge = JobSpec("huge", LDA, DatasetSpec("huge", input_gb=1e4,
                                                model_gb=1e3),
                       iterations=3)
        runtime = HarmonyRuntime(4, [fits, huge])
        with pytest.raises(SimulationError,
                           match=r"1 unfinished jobs.*'huge': 'waiting'"):
            runtime.run()
        interval = runtime.config.scheduler.reschedule_check_seconds
        assert runtime.master.jobs["fits"].is_done
        assert runtime.sim.now <= interval
