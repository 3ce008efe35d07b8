"""Tests for the job state machine, subtasks, and the profiler."""

import pytest

from repro.core.job import Job, JobState
from repro.core.profiler import JobMetrics, Profiler
from repro.errors import JobStateError, SchedulingError
from repro.workloads.apps import DATASETS, JobSpec, LDA


def _job(iterations=3) -> Job:
    return Job(JobSpec("j", LDA, DATASETS["LDA"][1],
                       iterations=iterations))


class TestJobStates:
    def test_starts_waiting_with_full_iterations(self):
        job = _job(iterations=5)
        assert job.state is JobState.WAITING
        assert job.remaining_iterations == 5
        assert job.job_id == job.spec.job_id == "j"

    def test_happy_path_transitions(self):
        job = _job()
        for state in (JobState.PROFILING, JobState.PROFILED,
                      JobState.RUNNING, JobState.PAUSED,
                      JobState.RUNNING, JobState.FINISHED):
            job.transition(state)
        assert job.is_done

    def test_queue_policy_start_skips_profiling(self):
        """Queue policies do not profile: their masters start a job
        straight from WAITING."""
        job = _job()
        job.transition(JobState.RUNNING)
        job.transition(JobState.FINISHED)
        assert job.is_done

    def test_illegal_transition_raises(self):
        job = _job()
        with pytest.raises(JobStateError):
            job.transition(JobState.FINISHED)  # WAITING -> FINISHED

    def test_terminal_states_are_final(self):
        job = _job()
        job.transition(JobState.PROFILING)
        job.transition(JobState.FAILED)
        with pytest.raises(JobStateError):
            job.transition(JobState.RUNNING)

    def test_interrupted_profiling_can_resume(self):
        job = _job()
        job.transition(JobState.PROFILING)
        job.transition(JobState.PAUSED)
        job.transition(JobState.PROFILING)  # re-profiled later
        assert job.state is JobState.PROFILING

    def test_complete_iteration_counts_down(self):
        job = _job(iterations=2)
        assert job.complete_iteration() is False
        assert job.complete_iteration() is True
        with pytest.raises(JobStateError):
            job.complete_iteration()



class TestJobMetrics:
    def test_t_cpu_scales_inversely_with_machines(self):
        metrics = JobMetrics("j", cpu_work=100.0, t_net=10.0,
                             m_observed=4)
        assert metrics.t_cpu_at(4) == 25.0
        assert metrics.t_cpu_at(8) == 12.5

    def test_iteration_time_adds_network(self):
        metrics = JobMetrics("j", cpu_work=100.0, t_net=10.0,
                             m_observed=4)
        assert metrics.t_iteration_at(10) == pytest.approx(20.0)

    def test_bad_dop_raises(self):
        metrics = JobMetrics("j", cpu_work=1.0, t_net=1.0, m_observed=1)
        with pytest.raises(SchedulingError):
            metrics.t_cpu_at(0)

    def test_comp_comm_ratio(self):
        metrics = JobMetrics("j", cpu_work=100.0, t_net=10.0,
                             m_observed=4)
        assert metrics.comp_comm_ratio_at(10) == pytest.approx(1.0)

    def test_comp_comm_ratio_without_network_is_infinite(self):
        metrics = JobMetrics("j", cpu_work=100.0, t_net=0.0,
                             m_observed=4)
        assert metrics.comp_comm_ratio_at(10) == float("inf")


class TestProfiler:
    def test_first_record_is_exact(self):
        profiler = Profiler()
        profiler.record_iteration("j", t_cpu=10.0, t_net=4.0, m=8)
        metrics = profiler.get("j")
        assert metrics.cpu_work == pytest.approx(80.0)
        assert metrics.t_net == pytest.approx(4.0)
        assert metrics.samples == 1

    @pytest.mark.parametrize("m", [0, -2])
    def test_a_dop_below_one_is_rejected(self, m):
        profiler = Profiler()
        with pytest.raises(SchedulingError, match="DoP must be >= 1"):
            profiler.record_iteration("j", t_cpu=10.0, t_net=4.0, m=m)
        assert not profiler.has("j")

    def test_ema_converges_to_new_level(self):
        profiler = Profiler(ema_alpha=0.5)
        profiler.record_iteration("j", 10.0, 4.0, m=1)
        for _ in range(20):
            profiler.record_iteration("j", 20.0, 8.0, m=1)
        metrics = profiler.get("j")
        assert metrics.cpu_work == pytest.approx(20.0, rel=0.01)
        assert metrics.t_net == pytest.approx(8.0, rel=0.01)

    def test_atypical_first_sample_is_averaged_away(self):
        """Regression: the plain EMA anchored on the first observation,
        so a 10x-slow first iteration (cold caches, lazy init) skewed
        the estimate for the job's whole lifetime.  The bias-corrected
        EMA weighs it like any other early sample."""
        profiler = Profiler(ema_alpha=0.1)
        profiler.record_iteration("j", t_cpu=100.0, t_net=40.0, m=1)
        for _ in range(9):
            profiler.record_iteration("j", t_cpu=10.0, t_net=4.0, m=1)
        metrics = profiler.get("j")
        # The uncorrected EMA would still read ~44.9 here (the outlier
        # retains weight (1-a)^9 ~ 0.39); bias correction shrinks its
        # weight to a(1-a)^9 / (1-(1-a)^10) ~ 0.06.
        assert metrics.cpu_work < 20.0
        assert metrics.t_net < 8.0

    def test_bias_corrected_ema_is_geometric_weighted_mean(self):
        alpha = 0.3
        samples = [12.0, 7.0, 9.5, 30.0, 8.0]
        profiler = Profiler(ema_alpha=alpha)
        for value in samples:
            profiler.record_iteration("j", t_cpu=value, t_net=1.0, m=1)
        n = len(samples)
        weights = [alpha * (1 - alpha) ** (n - 1 - i) for i in range(n)]
        expected = sum(w * v for w, v in zip(weights, samples, strict=True)) \
            / sum(weights)
        assert profiler.get("j").cpu_work == pytest.approx(expected)

    def test_cpu_work_is_dop_normalized(self):
        """Measurements at different DoPs agree on the work constant."""
        profiler = Profiler(ema_alpha=1.0)
        profiler.record_iteration("j", t_cpu=10.0, t_net=1.0, m=8)
        work_at_8 = profiler.get("j").cpu_work
        profiler.record_iteration("j", t_cpu=20.0, t_net=1.0, m=4)
        assert profiler.get("j").cpu_work == pytest.approx(work_at_8)

    def test_unknown_job_raises(self):
        with pytest.raises(SchedulingError):
            Profiler().get("ghost")

    def test_profiled_reads_known_ids_in_order(self):
        profiler = Profiler()
        for job_id in ("b", "a", "c"):
            profiler.record_iteration(job_id, 1.0, 1.0, m=2)
        ids = ["c", "ghost", "a", "b", "a"]
        assert profiler.profiled(iter(ids)) == [
            profiler.get(job_id) for job_id in ids
            if profiler.has(job_id)]
        assert profiler.profiled([]) == []

    def test_negative_measurement_raises(self):
        with pytest.raises(SchedulingError):
            Profiler().record_iteration("j", -1.0, 1.0, m=1)

    @pytest.mark.parametrize("t_cpu, t_net", [
        (float("nan"), 1.0), (1.0, float("nan")),
        (float("inf"), 1.0), (1.0, float("inf"))])
    def test_non_finite_measurement_raises(self, t_cpu, t_net):
        profiler = Profiler()
        with pytest.raises(SchedulingError):
            profiler.record_iteration("a", t_cpu, t_net, m=4)
        assert not profiler.has("a")

    def test_invalid_ema_raises(self):
        with pytest.raises(SchedulingError):
            Profiler(ema_alpha=0.0)

